//! Arena-based DOM-lite tree built from the token stream.
//!
//! Nodes live in a flat `Vec` and reference each other by [`NodeId`]; this
//! keeps the tree cache-friendly and avoids `Rc`/`RefCell` noise. Void
//! elements (`br`, `img`, `input`, `meta`, `link`, ...) never take children;
//! unclosed elements are auto-closed at EOF; stray close tags that match an
//! open ancestor unwind to it, otherwise they are ignored.

use crate::token::{tokenize, Attr, Token};

/// Index of a node within its [`Document`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub usize);

/// A DOM node.
#[derive(Debug, Clone)]
pub enum Node {
    /// An element with a lower-cased tag name, attributes and children.
    Element {
        /// Tag name, lower-cased.
        tag: String,
        /// Attributes in source order (names lower-cased).
        attrs: Vec<Attr>,
        /// Child node ids in document order.
        children: Vec<NodeId>,
    },
    /// A text run.
    Text(String),
    /// A comment (kept: phishers hide banner markup inside comments).
    Comment(String),
}

/// Elements that never have children.
pub(crate) fn is_void(tag: &str) -> bool {
    matches!(
        tag,
        "area"
            | "base"
            | "br"
            | "col"
            | "embed"
            | "hr"
            | "img"
            | "input"
            | "link"
            | "meta"
            | "param"
            | "source"
            | "track"
            | "wbr"
    )
}

/// A parsed HTML document: an arena of nodes plus the root list.
#[derive(Debug, Clone)]
pub struct Document {
    nodes: Vec<Node>,
    roots: Vec<NodeId>,
}

impl Document {
    /// Parse a document from HTML source. Infallible.
    pub fn parse(html: &str) -> Document {
        Document::from_tokens(tokenize(html))
    }

    /// Build a document from an owned token stream (shared by the default
    /// parse path and the [`crate::legacy`] reference parser).
    pub(crate) fn from_tokens(tokens: Vec<Token>) -> Document {
        let mut nodes: Vec<Node> = Vec::new();
        let mut roots: Vec<NodeId> = Vec::new();
        // Stack of open element ids.
        let mut stack: Vec<NodeId> = Vec::new();

        let attach =
            |nodes: &mut Vec<Node>, roots: &mut Vec<NodeId>, stack: &[NodeId], id: NodeId| {
                match stack.last() {
                    Some(&parent) => {
                        if let Node::Element { children, .. } = &mut nodes[parent.0] {
                            children.push(id);
                        }
                    }
                    None => roots.push(id),
                }
            };

        for tok in tokens {
            match tok {
                Token::Open {
                    tag,
                    attrs,
                    self_closing,
                } => {
                    let id = NodeId(nodes.len());
                    nodes.push(Node::Element {
                        tag: tag.clone(),
                        attrs,
                        children: Vec::new(),
                    });
                    attach(&mut nodes, &mut roots, &stack, id);
                    if !self_closing && !is_void(&tag) {
                        stack.push(id);
                    }
                }
                Token::Close { tag } => {
                    // Unwind to the matching open element, if any.
                    if let Some(pos) = stack.iter().rposition(
                        |&id| matches!(&nodes[id.0], Node::Element { tag: t, .. } if *t == tag),
                    ) {
                        stack.truncate(pos);
                    }
                    // Otherwise: stray close tag, ignored.
                }
                Token::Text(t) => {
                    let id = NodeId(nodes.len());
                    nodes.push(Node::Text(t));
                    attach(&mut nodes, &mut roots, &stack, id);
                }
                Token::Comment(c) => {
                    let id = NodeId(nodes.len());
                    nodes.push(Node::Comment(c));
                    attach(&mut nodes, &mut roots, &stack, id);
                }
            }
        }
        Document { nodes, roots }
    }

    /// The root node ids (usually one `<html>`, but fragments are fine).
    pub fn roots(&self) -> &[NodeId] {
        &self.roots
    }

    /// Look up a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Total node count.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the document contains no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Iterate all node ids in document order.
    pub fn all_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId)
    }

    /// Depth-first walk from the roots, calling `f` on every node id.
    pub fn walk(&self, mut f: impl FnMut(NodeId, &Node)) {
        let mut stack: Vec<NodeId> = self.roots.iter().rev().copied().collect();
        while let Some(id) = stack.pop() {
            let node = &self.nodes[id.0];
            f(id, node);
            if let Node::Element { children, .. } = node {
                for &c in children.iter().rev() {
                    stack.push(c);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_nested_tree() {
        let doc = Document::parse("<div><p>a</p><p>b</p></div>");
        assert_eq!(doc.roots().len(), 1);
        let root = doc.node(doc.roots()[0]);
        match root {
            Node::Element { tag, children, .. } => {
                assert_eq!(tag, "div");
                assert_eq!(children.len(), 2);
            }
            _ => panic!("expected element"),
        }
    }

    #[test]
    fn void_elements_take_no_children() {
        let doc = Document::parse("<p><br>text</p>");
        // "text" must be a child of <p>, not of <br>.
        let p = doc.roots()[0];
        match doc.node(p) {
            Node::Element { children, .. } => {
                assert_eq!(children.len(), 2);
                assert!(matches!(doc.node(children[0]), Node::Element { tag, .. } if tag == "br"));
                assert!(matches!(doc.node(children[1]), Node::Text(t) if t == "text"));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn unclosed_elements_autoclose() {
        let doc = Document::parse("<div><p>a");
        assert_eq!(doc.roots().len(), 1);
        let mut texts = 0;
        doc.walk(|_, n| {
            if matches!(n, Node::Text(_)) {
                texts += 1;
            }
        });
        assert_eq!(texts, 1);
    }

    #[test]
    fn stray_close_ignored() {
        let doc = Document::parse("</div><p>x</p>");
        assert_eq!(doc.roots().len(), 1);
    }

    #[test]
    fn misnested_unwinds() {
        // </div> closes both <p> and <div>; the following text is a root.
        let doc = Document::parse("<div><p>a</div>b");
        assert_eq!(doc.roots().len(), 2);
        assert!(matches!(doc.node(doc.roots()[1]), Node::Text(t) if t == "b"));
    }

    #[test]
    fn comments_preserved_in_tree() {
        let doc = Document::parse("<div><!-- hidden banner --></div>");
        let mut saw = false;
        doc.walk(|_, n| {
            if let Node::Comment(c) = n {
                saw = c.contains("hidden banner");
            }
        });
        assert!(saw);
    }

    #[test]
    fn walk_is_document_order() {
        let doc = Document::parse("<a>1</a><b>2</b>");
        let mut order = Vec::new();
        doc.walk(|_, n| {
            if let Node::Element { tag, .. } = n {
                order.push(tag.clone());
            }
        });
        assert_eq!(order, vec!["a", "b"]);
    }

    #[test]
    fn empty_document() {
        let doc = Document::parse("");
        assert!(doc.is_empty());
        assert!(doc.roots().is_empty());
    }
}
