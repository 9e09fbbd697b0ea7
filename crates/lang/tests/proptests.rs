//! Property-based tests for the language substrate: grammar/parser
//! round-trips, hypothesis-vector invariants and windowing laws.

use deepbase_lang::hypothesis::{keyword_behavior, TreeHypothesis};
use deepbase_lang::vocab::{project_behavior, sliding_windows, Vocab};
use deepbase_lang::{EarleyParser, Grammar, TreeRepr};
use deepbase_tensor::init::seeded_rng;
use proptest::prelude::*;

fn arith_grammar() -> Grammar {
    Grammar::from_spec(
        "expr -> term | expr '+' term ; term -> digit | '(' expr ')' ; digit -> '1' | '2' ;",
    )
    .unwrap()
}

proptest! {
    #[test]
    fn sampled_strings_always_reparse(seed in 0u64..500) {
        let g = arith_grammar();
        let mut rng = seeded_rng(seed);
        let (text, tree) = g.sample(&mut rng, 8);
        let parser = EarleyParser::new(&g);
        prop_assert!(parser.recognizes(&text), "sample must reparse: {text}");
        // The ground-truth tree spans the whole string.
        prop_assert_eq!(tree.start, 0);
        prop_assert_eq!(tree.end, text.chars().count());
    }

    #[test]
    fn sampled_tree_spans_are_nested(seed in 0u64..200) {
        let g = deepbase_lang::paren::paren_grammar();
        let mut rng = seeded_rng(seed);
        let (_, tree) = g.sample(&mut rng, 10);
        let mut stack = vec![&tree];
        while let Some(node) = stack.pop() {
            let mut cursor = node.start;
            for child in &node.children {
                prop_assert!(child.start >= cursor, "children in order");
                prop_assert!(child.end <= node.end, "child within parent");
                cursor = child.end;
                stack.push(child);
            }
        }
    }

    #[test]
    fn tree_hypothesis_length_invariant(seed in 0u64..200, len in 0usize..40) {
        let g = arith_grammar();
        let mut rng = seeded_rng(seed);
        let (_, tree) = g.sample(&mut rng, 6);
        for repr in [TreeRepr::Time, TreeRepr::Signal, TreeRepr::Depth] {
            let h = TreeHypothesis { rule: "term".into(), repr };
            prop_assert_eq!(h.behavior(&tree, len).len(), len);
        }
    }

    #[test]
    fn time_representation_dominates_signal(seed in 0u64..200) {
        // Signal marks a subset of the positions time marks.
        let g = arith_grammar();
        let mut rng = seeded_rng(seed);
        let (text, tree) = g.sample(&mut rng, 6);
        let len = text.chars().count();
        let time = TreeHypothesis { rule: "expr".into(), repr: TreeRepr::Time };
        let signal = TreeHypothesis { rule: "expr".into(), repr: TreeRepr::Signal };
        let t = time.behavior(&tree, len);
        let s = signal.behavior(&tree, len);
        for (tv, sv) in t.iter().zip(s.iter()) {
            prop_assert!(sv <= tv, "signal ⊆ time");
        }
    }

    #[test]
    fn keyword_behavior_counts_match_occurrences(
        body in proptest::collection::vec(prop_oneof![Just('a'), Just('b'), Just('x')], 0..30),
    ) {
        let text: String = body.into_iter().collect();
        let b = keyword_behavior(&text, "ab");
        let marked = b.iter().filter(|&&v| v > 0.5).count();
        // Non-overlapping "ab" matches: each marks exactly 2 chars.
        let matches = text.matches("ab").count();
        prop_assert_eq!(marked, 2 * matches);
    }

    #[test]
    fn windows_partition_positions(
        len in 1usize..60,
        ns in 1usize..20,
        stride in 1usize..10,
    ) {
        let source: String = (0..len).map(|i| char::from(b'a' + (i % 26) as u8)).collect();
        let windows = sliding_windows(&source, ns, stride);
        prop_assert!(!windows.is_empty());
        for w in &windows {
            prop_assert_eq!(w.text.chars().count(), ns);
            prop_assert!(w.visible <= ns);
            prop_assert!(w.offset + w.visible <= len);
        }
        // The final window reaches the end of the source.
        let last = windows.last().unwrap();
        prop_assert_eq!(last.offset + last.visible, len);
        prop_assert!(last.target.is_none());
    }

    #[test]
    fn projection_preserves_visible_values(
        len in 4usize..40,
        ns in 2usize..12,
        stride in 1usize..6,
    ) {
        let source: String = (0..len).map(|i| char::from(b'a' + (i % 26) as u8)).collect();
        let behavior: Vec<f32> = (0..len).map(|i| i as f32 + 1.0).collect();
        for w in sliding_windows(&source, ns, stride) {
            let projected = project_behavior(&behavior, &w, ns);
            let pad = ns - w.visible;
            for i in 0..w.visible {
                prop_assert_eq!(projected[pad + i], behavior[w.offset + i]);
            }
            for v in projected.iter().take(pad) {
                prop_assert_eq!(*v, 0.0);
            }
        }
    }

    #[test]
    fn vocab_roundtrip_known_chars(text in "[a-d]{0,20}") {
        let v = Vocab::from_alphabet(&['a', 'b', 'c', 'd']);
        prop_assert_eq!(v.decode(&v.encode(&text)), text);
    }

    #[test]
    fn nesting_level_never_negative(seed in 0u64..200) {
        let g = deepbase_lang::paren::paren_grammar();
        let mut rng = seeded_rng(seed);
        let (text, _) = g.sample(&mut rng, 10);
        for level in deepbase_lang::paren::nesting_level_behavior(&text) {
            prop_assert!(level >= 0.0);
        }
    }
}
