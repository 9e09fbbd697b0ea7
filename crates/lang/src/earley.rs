//! Earley chart parser over character terminals.
//!
//! This replaces NLTK's chart parser in the paper's pipeline (§6.1):
//! sampled SQL strings are parsed back into trees, and a single parse of a
//! record is amortized across all parse-derived hypothesis functions. The
//! implementation handles epsilon productions via the Aycock–Horspool
//! nullable-prediction trick and returns the first derivation found
//! (deterministic for a fixed grammar).
//!
//! # Chart representation
//!
//! The chart is one flat `Vec` of `Copy` items, Earley set after Earley
//! set. An item is `(prod, dot, origin)` plus two links written when the
//! item is created and never again:
//!
//! * `pred` — the item `(prod, dot - 1, origin)` it was advanced from;
//! * `child` — the completed item whose subtree the advance attached, or
//!   [`NONE`] when the dot moved over a terminal (no tree node) or over a
//!   nullable nonterminal by the Aycock–Horspool rule (an empty node).
//!
//! No subtree is built or copied while the chart is filled. After accept,
//! [`EarleyParser::build_tree`] walks `pred` from the accepting item back
//! to dot 0, descending into each `child`, and allocates exactly the nodes
//! of the returned tree.
//!
//! # Why the links reproduce the tree of a subtree-copying chart
//!
//! A chart whose items own their child subtrees (the parser this one
//! replaced; kept as `reference_parse` in `tests/earley_differential.rs`)
//! drops an item when `(prod, dot, origin)` is already in the set, so an
//! item's children are those of its *first* insertion: the subtrees its
//! predecessor held at that moment, plus the one just attached. The
//! predecessor's children were fixed the same way, so by induction the
//! tree an item owns is a function of the first-insertion `(pred, child)`
//! pair of every item reachable from it — which is exactly what is stored
//! here. Items are created in the same order (predictions, then the
//! nullable advance; scans in item order; a completer's parents in the
//! order they entered the origin set, snapshotted before it pushes), so
//! "first" means the same thing in both charts and ambiguity resolves the
//! same way.
//!
//! # Indexes
//!
//! Two intrusive lists keep the completer and the duplicate check off the
//! full sets; both are O(chart) in memory:
//!
//! * every item awaiting nonterminal `X` in set `j` is chained, in
//!   insertion order, on the wait list `(j, X)`; an item carries the id of
//!   the list `(origin, lhs)` from prediction on, so completing it reads
//!   its parents and nothing else;
//! * only an advance over a nonterminal can create a duplicate (a
//!   prediction is guarded per nonterminal and set, and two scans into a
//!   set come from distinct items), so those items are chained per
//!   production within the current set and a candidate is compared against
//!   that chain — as long as the set holds origins for that production,
//!   one or two in practice.

use crate::grammar::{Grammar, Sym};
use crate::tree::ParseTree;

/// Null link.
const NONE: u32 = u32::MAX;

/// An Earley item; see the module docs for the links.
#[derive(Debug, Clone, Copy)]
struct Item {
    prod: u32,
    dot: u32,
    origin: u32,
    /// The item this one was advanced from.
    pred: u32,
    /// The completed item attached by that advance.
    child: u32,
    /// Wait list `(origin, lhs)`: the items to advance at completion.
    parents: u32,
    /// Next item of the same set awaiting the same nonterminal.
    next_waiting: u32,
    /// Next item of the same set and production that advanced over a
    /// nonterminal (the duplicate-check chain).
    next_advanced: u32,
}

/// The items of one set awaiting one nonterminal, in insertion order.
#[derive(Debug, Clone, Copy)]
struct WaitList {
    head: u32,
    tail: u32,
    /// Whether the nonterminal's productions were already predicted in
    /// this set.
    predicted: bool,
}

/// A per-set table slot: valid only while `set` is the current set, so
/// moving to the next set clears the table without touching it.
#[derive(Debug, Clone, Copy)]
struct Stamped {
    set: u32,
    value: u32,
}

/// Chart under construction.
struct Chart<'g> {
    grammar: &'g Grammar,
    /// All items, set after set; the current set is the tail.
    items: Vec<Item>,
    wait_lists: Vec<WaitList>,
    /// Current set number.
    set: u32,
    /// Per nonterminal: its wait list in the current set.
    wait_of: Vec<Stamped>,
    /// Per production: head of its duplicate-check chain in the current set.
    advanced_of: Vec<Stamped>,
}

fn link(index: usize) -> u32 {
    match u32::try_from(index) {
        Ok(id) if id != NONE => id,
        _ => panic!("Earley chart outgrew its 32-bit links"),
    }
}

impl<'g> Chart<'g> {
    fn new(grammar: &'g Grammar) -> Self {
        let unset = Stamped {
            set: NONE,
            value: NONE,
        };
        Chart {
            grammar,
            items: Vec::new(),
            wait_lists: Vec::new(),
            set: 0,
            wait_of: vec![unset; grammar.nonterminal_names().len()],
            advanced_of: vec![unset; grammar.productions().len()],
        }
    }

    fn rhs(&self, item: &Item) -> &'g [Sym] {
        &self.grammar.productions()[item.prod as usize].rhs
    }

    /// Id of the current set's wait list for `nt`, created on first use.
    fn wait_list(&mut self, nt: usize) -> u32 {
        let slot = &mut self.wait_of[nt];
        if slot.set != self.set {
            *slot = Stamped {
                set: self.set,
                value: link(self.wait_lists.len()),
            };
            self.wait_lists.push(WaitList {
                head: NONE,
                tail: NONE,
                predicted: false,
            });
        }
        slot.value
    }

    /// Appends `item` to the current set, chaining it on the wait list of
    /// the nonterminal after its dot, if any.
    fn push(&mut self, item: Item) {
        let id = link(self.items.len());
        self.items.push(item);
        if let Some(&Sym::Nt(nt)) = self.rhs(&item).get(item.dot as usize) {
            let list = self.wait_list(nt) as usize;
            let tail = std::mem::replace(&mut self.wait_lists[list].tail, id);
            match tail {
                NONE => self.wait_lists[list].head = id,
                tail => self.items[tail as usize].next_waiting = id,
            }
        }
    }

    /// Predictor: the productions of `nt`, once per set.
    fn predict(&mut self, nt: usize) {
        let list = self.wait_list(nt);
        if std::mem::replace(&mut self.wait_lists[list as usize].predicted, true) {
            return;
        }
        for &p in self.grammar.productions_of(nt) {
            self.push(Item {
                prod: link(p),
                dot: 0,
                origin: self.set,
                pred: NONE,
                child: NONE,
                parents: list,
                next_waiting: NONE,
                next_advanced: NONE,
            });
        }
    }

    /// Moves the dot of item `pred` over a nonterminal into the current
    /// set, unless that item is already there: first derivation wins.
    fn advance(&mut self, pred: u32, child: u32) {
        let from = self.items[pred as usize];
        let dot = from.dot + 1;
        let slot = &mut self.advanced_of[from.prod as usize];
        if slot.set != self.set {
            *slot = Stamped {
                set: self.set,
                value: NONE,
            };
        }
        let head = slot.value;
        let mut seen = head;
        while seen != NONE {
            let other = &self.items[seen as usize];
            if other.dot == dot && other.origin == from.origin {
                return;
            }
            seen = other.next_advanced;
        }
        self.advanced_of[from.prod as usize].value = link(self.items.len());
        self.push(Item {
            dot,
            pred,
            child,
            next_waiting: NONE,
            next_advanced: head,
            ..from
        });
    }

    /// Fills the chart for `chars` and returns the accepting item: the
    /// first completed start production spanning the whole input.
    fn recognize(&mut self, chars: &[char]) -> Option<u32> {
        let g = self.grammar;
        let n = link(chars.len());
        // Items scanned into the next set; they become its first items.
        let mut scanned: Vec<Item> = Vec::new();
        let mut set_start = 0;
        self.predict(g.start());

        loop {
            let k = self.set;
            let mut i = set_start;
            while i < self.items.len() {
                let id = link(i);
                let item = self.items[i];
                i += 1;
                match self.rhs(&item).get(item.dot as usize) {
                    Some(&Sym::Nt(nt)) => {
                        self.predict(nt);
                        // Aycock–Horspool: advance over nullable NTs
                        // immediately, attaching an empty subtree.
                        if g.is_nullable(nt) {
                            self.advance(id, NONE);
                        }
                    }
                    Some(&Sym::T(c)) => {
                        if chars.get(k as usize) == Some(&c) {
                            scanned.push(Item {
                                dot: item.dot + 1,
                                pred: id,
                                child: NONE,
                                next_waiting: NONE,
                                next_advanced: NONE,
                                ..item
                            });
                        }
                    }
                    None => {
                        // Completer: advance the parents waiting in the
                        // origin set. Advancing may append to this very
                        // list (origin == k); those items are not parents
                        // of this completion, so stop at today's tail.
                        let WaitList { head, tail, .. } = self.wait_lists[item.parents as usize];
                        let mut parent = head;
                        while parent != NONE {
                            self.advance(parent, id);
                            if parent == tail {
                                break;
                            }
                            parent = self.items[parent as usize].next_waiting;
                        }
                    }
                }
            }
            if k == n {
                break;
            }
            self.set = k + 1;
            set_start = self.items.len();
            for item in scanned.drain(..) {
                self.push(item);
            }
        }

        (set_start..self.items.len()).map(link).find(|&id| {
            let item = &self.items[id as usize];
            let p = &g.productions()[item.prod as usize];
            p.lhs == g.start() && item.dot as usize == p.rhs.len() && item.origin == 0
        })
    }
}

/// Earley parser bound to a grammar.
pub struct EarleyParser<'g> {
    grammar: &'g Grammar,
}

impl<'g> EarleyParser<'g> {
    /// Builds a parser; free, the grammar already knows its nullable set.
    pub fn new(grammar: &'g Grammar) -> Self {
        EarleyParser { grammar }
    }

    /// True when the nonterminal can derive the empty string.
    pub fn is_nullable(&self, nt: usize) -> bool {
        self.grammar.is_nullable(nt)
    }

    /// Parses `input`, returning the first full-span derivation of the
    /// start symbol, or `None` when the string is not in the language.
    pub fn parse(&self, input: &str) -> Option<ParseTree> {
        let chars: Vec<char> = input.chars().collect();
        let mut chart = Chart::new(self.grammar);
        let accepted = chart.recognize(&chars)?;
        Some(self.build_tree(&chart.items, accepted, chars.len()))
    }

    /// True when `input` is in the grammar's language.
    pub fn recognizes(&self, input: &str) -> bool {
        let chars: Vec<char> = input.chars().collect();
        Chart::new(self.grammar).recognize(&chars).is_some()
    }

    /// Builds the subtree of completed item `root`, which ends at `end`,
    /// from the chart's links. Iterative: a left-recursive chain nests as
    /// deep as the input is long, and that depth goes on the heap.
    fn build_tree(&self, items: &[Item], root: u32, end: usize) -> ParseTree {
        /// A node under construction: `at` walks `pred` from the completed
        /// item back to dot 0, `pos` is the input position before `at`'s
        /// dot; children arrive last first.
        struct Frame {
            end: usize,
            at: u32,
            pos: usize,
            children: Vec<ParseTree>,
        }
        let open = |item: u32, end: usize| Frame {
            end,
            at: item,
            pos: end,
            children: Vec::new(),
        };
        let g = self.grammar;
        let mut stack = vec![open(root, end)];
        loop {
            let top = stack.last_mut().expect("the root frame is popped last");
            let at = items[top.at as usize];
            let production = &g.productions()[at.prod as usize];
            if at.dot == 0 {
                let mut done = stack.pop().expect("top exists");
                done.children.reverse();
                let node = ParseTree {
                    rule: g.nt_name(production.lhs).to_string(),
                    start: at.origin as usize,
                    end: done.end,
                    children: done.children,
                };
                match stack.last_mut() {
                    Some(parent) => parent.children.push(node),
                    None => return node,
                }
                continue;
            }
            top.at = at.pred;
            match production.rhs[at.dot as usize - 1] {
                Sym::T(_) => top.pos -= 1,
                Sym::Nt(nt) if at.child == NONE => top.children.push(ParseTree {
                    rule: g.nt_name(nt).to_string(),
                    start: top.pos,
                    end: top.pos,
                    children: Vec::new(),
                }),
                Sym::Nt(_) => {
                    let child_end = top.pos;
                    top.pos = items[at.child as usize].origin as usize;
                    stack.push(open(at.child, child_end));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepbase_tensor::init::seeded_rng;

    const ARITH: &str = r"
        expr -> term | expr '+' term ;
        term -> digit | '(' expr ')' ;
        digit -> '1' | '2' | '3' ;
    ";

    fn arith() -> Grammar {
        Grammar::from_spec(ARITH).unwrap()
    }

    #[test]
    fn accepts_simple_strings() {
        let g = arith();
        let parser = EarleyParser::new(&g);
        for ok in ["1", "1+2", "(1+2)+3", "((1))"] {
            assert!(parser.recognizes(ok), "should accept {ok}");
        }
    }

    #[test]
    fn rejects_malformed_strings() {
        let g = arith();
        let parser = EarleyParser::new(&g);
        for bad in ["", "+", "1+", "(1", "4", "1++2"] {
            assert!(!parser.recognizes(bad), "should reject {bad}");
        }
    }

    #[test]
    fn tree_spans_cover_input() {
        let g = arith();
        let parser = EarleyParser::new(&g);
        let tree = parser.parse("(1+2)+3").unwrap();
        assert_eq!(tree.start, 0);
        assert_eq!(tree.end, 7);
        assert_eq!(tree.rule, "expr");
        // The parenthesized group is an inner expr spanning chars 1..4.
        assert!(tree.spans_of("expr").contains(&(1, 4)));
    }

    #[test]
    fn left_recursion_handled() {
        let g = arith();
        let parser = EarleyParser::new(&g);
        // expr -> expr '+' term is left-recursive; long chains must parse.
        let long = "1+2+3+1+2+3+1+2+3";
        assert!(parser.recognizes(long));
    }

    #[test]
    fn nullable_set_computed_transitively() {
        let g = Grammar::from_spec("s -> a b ; a -> | 'x' ; b -> a a ;").unwrap();
        let parser = EarleyParser::new(&g);
        assert!(parser.is_nullable(g.nt_id("a").unwrap()));
        assert!(parser.is_nullable(g.nt_id("b").unwrap()));
        assert!(parser.is_nullable(g.nt_id("s").unwrap()));
    }

    #[test]
    fn epsilon_productions_parse() {
        let g = Grammar::from_spec("s -> opt 'x' opt ; opt -> | 'o' ;").unwrap();
        let parser = EarleyParser::new(&g);
        for ok in ["x", "ox", "xo", "oxo"] {
            assert!(parser.recognizes(ok), "should accept {ok:?}");
        }
        assert!(!parser.recognizes("oo"));
        assert!(!parser.recognizes("oxoo"));
    }

    #[test]
    fn empty_input_accepted_iff_start_nullable() {
        let g = Grammar::from_spec("s -> | 'x' ;").unwrap();
        let parser = EarleyParser::new(&g);
        assert!(parser.recognizes(""));
        let g2 = Grammar::from_spec("s -> 'x' ;").unwrap();
        let parser2 = EarleyParser::new(&g2);
        assert!(!parser2.recognizes(""));
    }

    #[test]
    fn sampled_strings_reparse_under_same_grammar() {
        let g = arith();
        let parser = EarleyParser::new(&g);
        let mut rng = seeded_rng(11);
        for _ in 0..100 {
            let (text, _) = g.sample(&mut rng, 6);
            assert!(
                parser.recognizes(&text),
                "sampled string must parse: {text}"
            );
        }
    }

    #[test]
    fn parse_tree_matches_sampled_rule_multiset_weakly() {
        // The parsed tree need not equal the sampled derivation (ambiguity),
        // but it must reference only rules of the grammar and have sane spans.
        let g = arith();
        let parser = EarleyParser::new(&g);
        let mut rng = seeded_rng(3);
        let (text, _) = g.sample(&mut rng, 6);
        let tree = parser.parse(&text).unwrap();
        let names = tree.rule_names();
        for n in &names {
            assert!(g.nt_id(n).is_some(), "unknown rule {n}");
        }
    }

    #[test]
    fn unrelated_alphabet_rejected() {
        let g = arith();
        let parser = EarleyParser::new(&g);
        assert!(!parser.recognizes("abc"));
    }
}
